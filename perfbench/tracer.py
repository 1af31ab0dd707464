"""Span recorder that times calls into latpatch's layers from outside.

`install(recorder)` wraps every public function of the layer modules,
`Lattice.__init__` and the `Diagram.boundary` cached property, and rebinds
each wrapped function wherever a latpatch module holds it (modules bind
with `from .x import y`, so patching only the defining module would miss
calls).  Spans are kept in memory as (name, start, end, parent) and
summarised at the end; a span's self time is its duration minus the
durations of its direct children, which nest inside it on one thread.
"""

import functools
import inspect
import sys
import time

LAYERS = ("core", "diagram", "ops", "pipeline", "documents", "generators")

# Span names of the functions the benchmark's per-layer table names; every
# other public function is recorded as "<layer>.<function>".
SPAN_NAMES = {
    "core.is_isomorphic": "core.isomorphic",
    "diagram.validate_diagram": "diagram.validate",
    "documents.parse_document": "documents.parse",
    "documents.parse_tree_document": "documents.parse",
    "documents.serialize": "documents.serialize",
    "documents.serialize_tree": "documents.serialize",
    "ops.one_step_extension": "ops.extension",
    "ops.find_extension_sites": "ops.sites",
    "ops.restrict_gluing": "ops.pullback",
    "ops.validate_witness": "ops.witness",
    "ops.decompose_at": "ops.cut",
    "pipeline.brute_force_gluing_search": "pipeline.oracle",
    "pipeline.decompose": "pipeline.decompose",
    "pipeline.verify_tree": "pipeline.verify",
}


# Constant-time accessors called dozens of times per extension-site scan:
# a span each would make most of the trace, so their time stays in the
# caller's self time.
UNTRACED = {"core.irreducibility"}


def _tree_nodes(tree):
    children = (tree.left, tree.right) if hasattr(tree, "left") else ()
    return 1 + sum(_tree_nodes(c) for c in children)


# Output-determined counts, taken from a call's arguments and result after
# its span has ended.
COUNTERS = {
    "core.lattice": lambda args, out: ("core.lattice.elements", args[0].n),
    "diagram.slim": lambda args, out: ("diagram.eyes_removed", len(out[1])),
    "ops.rectangularize": lambda args, out: ("ops.hull_elements", out[0].lattice.n),
    "pipeline.decompose": lambda args, out: ("pipeline.nodes", _tree_nodes(out[0])),
    "documents.serialize": lambda args, out: ("documents.serialize.bytes", len(out)),
}


class Recorder:
    """In-memory spans plus counters for one traced process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def clear(self):
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key, value = counter(args, out)
                self.counts[key] = self.counts.get(key, 0) + value
            return out

        return traced

    def summary(self):
        """Per span name: calls, self seconds, and inclusive seconds counted
        only on spans with no ancestor of the same name."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                entry["s"] += end - start
        return out

    def write(self, path):
        """Write every span as one tab-separated line: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _targets():
    """(span name, function) for every public function of every layer."""
    import latpatch  # noqa: F401  (loads every layer module)
    out = []
    for layer in LAYERS:
        module = sys.modules[f"latpatch.{layer}"]
        for attr, value in vars(module).items():
            # a generator function would end its span before doing any work
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                    or inspect.isgeneratorfunction(value)):
                continue
            key = f"{layer}.{attr}"
            if key in UNTRACED:
                continue
            out.append((SPAN_NAMES.get(key, key), value))
    return out


def install(recorder):
    """Route every traced call through `recorder`; returns an undo function."""
    from latpatch.core import Lattice
    from latpatch.diagram import Diagram

    wrapped = {id(fn): (fn, recorder.wrap(name, fn)) for name, fn in _targets()}
    rebound = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "latpatch" or mod_name.startswith("latpatch.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and wrapped[id(value)][0] is value:
                rebound.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)][1])

    init = Lattice.__init__
    Lattice.__init__ = recorder.wrap("core.lattice", init)
    boundary = Diagram.__dict__["boundary"]
    traced_boundary = functools.cached_property(
        recorder.wrap("diagram.boundary", boundary.func))
    traced_boundary.__set_name__(Diagram, "boundary")
    Diagram.boundary = traced_boundary

    def uninstall():
        for module, attr, value in rebound:
            setattr(module, attr, value)
        Lattice.__init__ = init
        Diagram.boundary = boundary

    return uninstall
