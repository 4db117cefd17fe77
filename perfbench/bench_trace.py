"""Span tracer that measures copulaproc's layers from outside the package.

``Tracer.install()`` replaces every entry point of each layer module with a
wrapper, in the defining module and in every ``from .x import f``
re-binding elsewhere in the package, so nested calls are attributed too.
A call opens a span only when it crosses into a layer from a different one;
calls inside the same layer run through with their counters but no span.
Integrands handed to the quadrature are wrapped as calls back into the
layer that defined them, so quadrature self time is the rule itself.

Spans are kept in memory as ``(op_id, span_id, parent_id, name, start,
end)`` and written out by ``write_spans``.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

#: layer name -> module holding it; ``grid`` and ``errors`` are too thin to time
LAYER_MODULES = {
    "rng": "copulaproc.rng",
    "copulas": "copulaproc.copulas",
    "marginals": "copulaproc.marginals",
    "sklar": "copulaproc.sklar",
    "quadrature": "copulaproc._quadrature",
    "transport": "copulaproc.transport",
    "kl": "copulaproc.kl",
    "robustness": "copulaproc.robustness",
    "serialize": "copulaproc.serialize",
    "cli": "copulaproc.cli",
}
_LAYER_OF_MODULE = {mod: layer for layer, mod in LAYER_MODULES.items()}

#: called once per float or per JSON node; their time stays with the
#: enclosing serialize span and ``format_float`` gets a bare counter instead
_NOT_SPANNED = {("serialize", "format_float"), ("serialize", "to_jsonable")}
#: private methods that other layers call directly
_PRIVATE_ENTRY_METHODS = {"_cdf0"}
#: first parameter naming the data array of a marginals entry point
_ENTRY_ARRAY_PARAMS = ("x", "u", "z")


class _Frame:
    __slots__ = ("span_id", "layer", "child_time")

    def __init__(self, span_id, layer):
        self.span_id = span_id
        self.layer = layer
        self.child_time = 0.0


def layer_of(fn) -> str:
    """Layer of the module that defined ``fn``; ``bench`` when outside."""
    return _LAYER_OF_MODULE.get(getattr(fn, "__module__", None), "bench")


class Tracer:
    """Per-layer spans and exact counters for one traced phase."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.jitter_max = 0.0
        self.op_id = -1
        self._stack = []
        self._next_id = 0
        self._patches = []

    # ----- spans ---------------------------------------------------------
    def span(self, name, layer, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` attributed to ``layer``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = _Frame(self._next_id, layer)
        self._next_id += 1
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame.child_time
            if parent is not None:
                parent.child_time += duration
            self.spans.append((self.op_id, frame.span_id,
                               parent.span_id if parent else None,
                               name, start, end))

    def run_op(self, op_id, fn):
        """Run one benchmark op under a root span of the ``bench`` layer."""
        self.op_id = op_id
        return self.span("bench.op", "bench", fn)

    def current_layer(self):
        return self._stack[-1].layer if self._stack else None

    def call_into(self, layer, name, fn, /, *args):
        """Call ``fn`` as a call into ``layer``: a span only on crossing."""
        if self.current_layer() == layer:
            return fn(*args)
        self.counts[f"{layer}.calls"] += 1
        return self.span(name, layer, fn, *args)

    # ----- wrapping ------------------------------------------------------
    def _wrap(self, layer, name, fn, hook):
        tracer = self
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_layer = tracer.current_layer()
            nested = parent_layer == layer
            if nested:
                run = fn
            else:
                tracer.counts[f"{layer}.calls"] += 1
                run = functools.partial(tracer.span, span_name, layer, fn)
            if hook is None:
                return run(*args, **kwargs)
            return hook(tracer, run, args, kwargs, parent_layer, nested)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every layer entry point; ``uninstall`` restores them."""
        modules = {layer: importlib.import_module(mod)
                   for layer, mod in LAYER_MODULES.items()}
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "copulaproc" or n.startswith("copulaproc.")]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(layer, obj)
                    continue
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if (layer, name) == ("serialize", "format_float"):
                    self._rebind(package, obj, self._counted_format_float(obj))
                    continue
                if (layer, name) in _NOT_SPANNED:
                    continue
                rebound = any(vars(m).get(name) is obj for m in package
                              if m is not module)
                if name.startswith("_") and not rebound:
                    continue
                hook = _hook_for(layer, name, obj)
                self._rebind(package, obj, self._wrap(layer, name, obj, hook))

    def _rebind(self, package, original, new):
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, new)

    def _wrap_class(self, layer, cls):
        is_family = layer == "marginals"
        for name, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if name.startswith("_") and not (
                    name in _PRIVATE_ENTRY_METHODS
                    or (is_family and name == "__init__")):
                continue
            hook = _hook_for(layer, name, obj)
            self._patch(cls, name, self._wrap(layer, f"{cls.__name__}.{name}", obj, hook))

    def _counted_format_float(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(x):
            counts["serialize.floats"] += 1
            return fn(x)

        return counted

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----- integrands ----------------------------------------------------
    def wrap_integrand(self, f, seen):
        """Count the nodes ``f`` is evaluated on; attribute it to its layer."""
        layer = layer_of(f)
        counts = self.counts

        def integrand(u, cu):
            size = int(np.size(u))
            seen[0] = max(seen[0], size)
            counts["quadrature.nodes"] += size
            return self.call_into(layer, f"{layer}.integrand", f, u, cu)

        return integrand

    # ----- output --------------------------------------------------------
    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda r: r[1]):
                fh.write(json.dumps(record) + "\n")


# ----- counter hooks -------------------------------------------------------
# A hook receives the tracer, ``run`` (the original call, inside a span when
# the call crosses layers), the call's arguments, the caller's layer and
# whether the call is nested in its own layer.  It performs the call.

def _bound(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


def _hook_for(layer, name, fn):
    signature = inspect.signature(fn)
    params = signature.parameters
    base = name.split(".")[-1]
    if layer == "rng" and base == "path_generator":
        return _count_stream
    if layer == "copulas" and base == "cholesky_with_jitter":
        return _record_jitter
    if layer == "copulas" and "n_paths" in params:
        return functools.partial(_count_paths, signature)
    if layer == "marginals":
        array_param = next((p for p in params if p in _ENTRY_ARRAY_PARAMS), None)
        if array_param is not None:
            return functools.partial(_count_entries, list(params).index(array_param),
                                     array_param)
    if layer == "sklar" and base == "merge":
        return _count_merge
    if layer == "sklar" and base == "extract_copula":
        return _count_extract
    if layer == "quadrature" and base == "adaptive_unit_integral":
        return functools.partial(_count_integral, signature)
    if layer == "quadrature" and base == "get":
        return functools.partial(_count_probe, signature)
    if layer == "serialize" and base in ("write_json", "write_csv"):
        return _count_bytes
    return None


def _count_stream(tracer, run, args, kwargs, parent_layer, nested):
    tracer.counts["rng.streams"] += 1
    return run(*args, **kwargs)


def _record_jitter(tracer, run, args, kwargs, parent_layer, nested):
    result = run(*args, **kwargs)
    tracer.jitter_max = max(tracer.jitter_max, float(result[1]))
    return result


def _count_paths(signature, tracer, run, args, kwargs, parent_layer, nested):
    if not nested:
        tracer.counts["copulas.paths"] += int(_bound(signature, args, kwargs).arguments["n_paths"])
    return run(*args, **kwargs)


def _count_entries(index, name, tracer, run, args, kwargs, parent_layer, nested):
    if not nested:
        data = args[index] if index < len(args) else kwargs[name]
        tracer.counts["marginals.entries"] += int(np.size(data))
    return run(*args, **kwargs)


def _count_merge(tracer, run, args, kwargs, parent_layer, nested):
    copula = args[0] if args else kwargs["copula"]
    tracer.counts["sklar.merge_entries"] += copula.paths.size
    return run(*args, **kwargs)


def _count_extract(tracer, run, args, kwargs, parent_layer, nested):
    process = args[0] if args else kwargs["process"]
    family = args[1] if len(args) > 1 else kwargs["family"]
    size = process.paths.size
    tracer.counts["sklar.extract_entries"] += size
    # one auxiliary uniform is drawn per entry whatever the family
    tracer.counts["sklar.aux_draws"] += size
    if not family.is_continuous:
        tracer.counts["sklar.atomic_entries"] += size
    if parent_layer == "robustness":
        tracer.counts["robustness.extract_calls"] += 1
    return run(*args, **kwargs)


def _count_integral(signature, tracer, run, args, kwargs, parent_layer, nested):
    bound = _bound(signature, args, kwargs)
    seen = [0]
    bound.arguments["f"] = tracer.wrap_integrand(bound.arguments["f"], seen)
    result = run(*bound.args, **bound.kwargs)
    tracer.counts["quadrature.integrals"] += 1
    if seen[0] >= bound.arguments["max_nodes"]:
        tracer.counts["quadrature.cap_hits"] += 1
    return result


def _count_probe(signature, tracer, run, args, kwargs, parent_layer, nested):
    bound = _bound(signature, args, kwargs)
    bound.arguments["f"] = tracer.wrap_integrand(bound.arguments["f"], [0])
    return run(*bound.args, **bound.kwargs)


def _count_bytes(tracer, run, args, kwargs, parent_layer, nested):
    result = run(*args, **kwargs)
    path = args[0] if args else kwargs["path"]
    tracer.counts["serialize.bytes"] += os.path.getsize(path)
    return result
