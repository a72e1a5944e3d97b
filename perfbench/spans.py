"""Spans around the library's public functions, recorded from outside.

Each public function is wrapped at the module attribute its caller looks
up, so the library's source stays untouched.  A span records its name
(the defining module and function, e.g. ``colouring.vizing_colour``),
the module whose binding was called, start, end, parent span and the
instance being labelled.  Times are process CPU time, as in the
benchmark's end-to-end timings.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# Module whose attribute a caller looks up -> names wrapped there.  The
# ``verification`` bindings cover the imports that construction makes at
# call time, and the ``cli`` bindings the command line's calls into
# fileio; ``pipeline.label`` and ``cli.main`` are the benchmark's own
# entry points, looked up through their modules on every call.
BINDINGS = {
    "antimagic.pipeline": (
        "label", "decompose", "classify_regime", "label_main",
        "label_case_i1", "label_case_i2", "label_case_i3",
        "label_disconnected", "label_delta_n1", "resolve",
        "randomized_search", "verify_antimagic"),
    "antimagic.construction": (
        "koenig_colour", "vizing_colour", "balance_classes",
        "order_classes_for_vertex", "label_case_i1", "label_case_i2",
        "label_case_i3"),
    "antimagic.verification": (
        "verify_stage_properties", "verify_bijection", "verify_antimagic"),
    "antimagic.resolution": ("find_conflicts", "verify_antimagic"),
    "antimagic.oracle": ("verify_antimagic",),
    "antimagic.cli": (
        "main", "label", "parse_graph", "parse_labelling", "emit_labelling",
        "verify_bijection", "verify_antimagic"),
}

CONSTRUCTORS = frozenset({
    "construction.label_main", "construction.label_case_i1",
    "construction.label_case_i2", "construction.label_case_i3",
    "construction.label_disconnected", "construction.label_delta_n1",
})


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "instance",
                 "extra")

    def __init__(self, name, site, start, parent, instance):
        self.name = name
        self.site = site
        self.start = start
        self.end = start
        self.parent = parent
        self.instance = instance
        self.extra = None

    def as_json(self, index: int) -> dict:
        doc = {"i": index, "name": self.name, "site": self.site,
               "start": self.start, "end": self.end, "parent": self.parent,
               "instance": self.instance}
        if self.extra is not None:
            doc["extra"] = self.extra
        return doc


def _extra(name: str, args, kwargs, result):
    """Counters read at the span boundary from arguments and results."""
    if name == "colouring.vizing_colour":
        edge_ids = args[1] if len(args) > 1 else kwargs["edge_ids"]
        return {"edges": len(edge_ids), "classes": len(result.classes)}
    if name == "pipeline.label":
        tr = result.resolution
        return {
            "status": result.status,
            "regime": result.regime.value,
            "case": None if tr is None else tr.case,
            "plans_tried": 0 if tr is None else tr.plans_tried,
            "applied": [] if tr is None else [e.describe() for e in tr.applied],
            "rejections": [] if tr is None else list(tr.rejections),
        }
    return None


class Tracer:
    """Records spans while installed; ``instance`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance = None
        self._stack: list[int] = []

    def _wrap(self, fn, site: str):
        name = f"{fn.__module__.removeprefix('antimagic.')}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, site, time.process_time(),
                        stack[-1] if stack else None, self.instance)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.process_time()
                stack.pop()
            span.extra = _extra(name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS; restore the originals on exit."""
        saved = []
        try:
            for module_name, names in BINDINGS.items():
                module = importlib.import_module(module_name)
                site = module_name.removeprefix("antimagic.")
                for attr in names:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, site))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span], first: int = 0) -> dict[int, float]:
    """Index -> duration minus the durations of direct child spans, for
    spans[first:].  Children never overlap, since the run is single
    threaded, so this is the time no child span covers."""
    own = {i: spans[i].end - spans[i].start for i in range(first, len(spans))}
    for i in range(first, len(spans)):
        parent = spans[i].parent
        if parent is not None and parent >= first:
            own[parent] -= spans[i].end - spans[i].start
    return own
