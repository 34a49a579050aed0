"""Spans and counts at gerbecalc's layer boundaries, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules,
and a few named methods, with a wrapper that records a span: its name,
start, end and the span that was open when it began.  A name bound in
several modules (``classify_edges`` lives in ``graphs``, ``admissibility``
and ``counting``) is replaced in every module namespace that holds it.
``Tracer.uninstall`` puts the originals back.

Spans are kept in compact per-thread arrays for the length of one call and
folded into per-name call counts and self times by ``end_call``.  A span's
self time is its duration minus the part of its interval covered by its
child spans.  Worker threads have no open span of their own, so their
outermost spans take the main thread's innermost open span as parent;
their intervals may overlap one another and are merged before subtraction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import logging
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "gerbecalc"
TRACED_MODULES = ("exactnum", "abelian", "graphs", "admissibility", "counting", "gw", "cli")

# Methods traced by name.  Reflected operators share their span with the
# forward operator because the class binds one function to both names.
METHOD_SPANS = {
    ("exactnum", "CyclotomicNumber"): {
        "__mul__": "exactnum.mul",
        "__rmul__": "exactnum.mul",
        "__add__": "exactnum.add",
        "__radd__": "exactnum.add",
        "__eq__": "exactnum.eq",
        "embedded": "exactnum.embedded",
        "__post_init__": "exactnum.construct",
    },
    ("gw", "BaseTheoryTable"): {"lookup": "gw.BaseTheoryTable.lookup"},
    ("graphs", "ModularGraph"): {"edges": "graphs.ModularGraph.edges"},
}

# lru caches whose hit ratio is reported, by metric prefix.
CACHE_METRICS = {
    "exactnum.reduction_rows": ("exactnum", "_reduction_rows"),
    "graphs.classify_edges": ("graphs", "classify_edges"),
    "counting.cycle_assignment": ("counting", "_cycle_assignment_count"),
}

# Generators whose yielded items are counted, by counter name.
YIELD_COUNTERS = {"admissibility.enumerate_compatible_gerby": "admissibility.decorations"}


def _embedded_name(args, kwargs) -> str:
    # Only a change of field is a re-embedding; the same order returns self.
    number = args[0]
    order = args[1] if len(args) > 1 else kwargs["order"]
    return "exactnum.embedded" if order != number.order else "exactnum.embedded.same_order"


class _ThreadSpans:
    """Finished spans of one thread, plus its stack of open span ids."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.clear()

    def clear(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.names: list[str] = []


class _CountWarnings(logging.Handler):
    def __init__(self, counters: Counter, name: str) -> None:
        super().__init__(logging.WARNING)
        self.counters = counters
        self.counter_name = name

    def emit(self, record: logging.LogRecord) -> None:
        self.counters[self.counter_name] += 1


class Tracer:
    """Wraps gerbecalc's layers; one instance per traced process."""

    def __init__(self) -> None:
        self.modules = {
            short: importlib.import_module(f"{PACKAGE}.{short}") for short in TRACED_MODULES
        }
        self.counters: Counter = Counter()
        self.span_names: set[str] = set()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._main = self._spans()
        self._patches: list[tuple[object, str, object]] = []
        self._warnings = _CountWarnings(self.counters, "gw.lookup.zero_fills")
        # Found before install, so these are the caches and not their wrappers.
        self._caches = self._find_caches()
        self._reported_caches = {
            metric: getattr(self.modules[short], attr)
            for metric, (short, attr) in CACHE_METRICS.items()
            if hasattr(getattr(self.modules[short], attr, None), "cache_info")
        }
        self._totals: dict[str, list] = {}
        self._cache_totals = {metric: [0, 0] for metric in self._reported_caches}
        self._yield_counters: set[str] = set()

    # ------------------------------------------------------------ caches

    def _find_caches(self) -> list:
        found = {}
        for module in self._namespaces():
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
        return list(found.values())

    def clear_caches(self) -> None:
        """Empty every lru cache of the package, as a fresh process has them."""
        for cache in self._caches:
            cache.cache_clear()

    # ----------------------------------------------------------- install

    def _namespaces(self) -> list:
        return [
            m
            for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]

    def install(self) -> None:
        namespaces = self._namespaces()
        for short, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                wrapper = self._wrap(obj, f"{short}.{attr}")
                for ns in namespaces:
                    for ns_attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, ns_attr, wrapper)
        for (short, cls_name), methods in METHOD_SPANS.items():
            cls = getattr(self.modules[short], cls_name, None)
            wrappers: dict[int, object] = {}
            for attr, name in methods.items():
                fn = vars(cls).get(attr) if cls is not None else None
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, name)
                self._patch(cls, attr, wrappers[id(fn)])
        logging.getLogger(f"{PACKAGE}.gw").addHandler(self._warnings)

    def uninstall(self) -> None:
        logging.getLogger(f"{PACKAGE}.gw").removeHandler(self._warnings)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ----------------------------------------------------------- wrapping

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
            return spans

    def _open(self, spans: _ThreadSpans) -> tuple[int, int]:
        sid = next(self._ids)
        if spans.stack:
            parent = spans.stack[-1]
        elif spans is not self._main and self._main.stack:
            parent = -2 - self._main.stack[-1]  # a parent in another thread
        else:
            parent = -1
        spans.stack.append(sid)
        return sid, parent

    @staticmethod
    def _close(spans: _ThreadSpans, sid: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        spans.stack.pop()
        spans.ids.append(sid)
        spans.parents.append(parent)
        spans.starts.append(start)
        spans.ends.append(end)
        spans.names.append(name)

    def _wrap(self, fn, name: str):
        tracer = self
        name_of = None
        on_result = None
        if name == "exactnum.embedded":
            name_of = _embedded_name
            self.span_names.add(name)
        elif name == "gw.build_potential":
            signature = inspect.signature(fn)
            self.span_names |= {f"{name}.gerbe", f"{name}.base"}

            def name_of(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return f"gw.build_potential.{bound.arguments['basis']}"

            def on_result(span_name, result):
                if span_name == "gw.build_potential.gerbe":
                    tracer.counters["gw.gerbe_keys_kept"] += len(result.coefficients)

        if inspect.isgeneratorfunction(fn):
            self.span_names.add(name)
            counter = YIELD_COUNTERS.get(name)
            if counter:
                self._yield_counters.add(counter)

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    spans = tracer._spans()
                    sid, parent = tracer._open(spans)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(spans, sid, parent, name, start)
                    if counter:
                        tracer.counters[counter] += 1
                    yield item

            return generator

        if name_of is None:
            self.span_names.add(name)
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            spans = tracer._spans()
            sid, parent = tracer._open(spans)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(spans, sid, parent, span_name, start)
            if on_result:
                on_result(span_name, result)
            return result

        return wrapper

    # ----------------------------------------------------------- results

    def end_call(self) -> None:
        """Fold the spans and cache counts of the call that just ended.

        Spans are stored as they close, so a span's same-thread children
        are all seen before it.
        """
        foreign: dict[int, list] = {}
        for spans in self._threads:
            for parent, start, end in zip(spans.parents, spans.starts, spans.ends):
                if parent <= -2:
                    foreign.setdefault(-2 - parent, []).append((start, end))
        totals = self._totals
        for spans in self._threads:
            child_time: dict[int, float] = {}
            for sid, parent, start, end, name in zip(
                spans.ids, spans.parents, spans.starts, spans.ends, spans.names
            ):
                covered = child_time.pop(sid, 0.0)
                if sid in foreign:
                    covered += _union_within(foreign[sid], start, end)
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += end - start - covered
                if parent >= 0:
                    child_time[parent] = child_time.get(parent, 0.0) + end - start
            spans.clear()
        for metric, cache in self._reported_caches.items():
            info = cache.cache_info()
            self._cache_totals[metric][0] += info.hits
            self._cache_totals[metric][1] += info.misses

    def take_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the calls since the last take; then reset.

        Every span that can occur reports its calls and self time, zero
        when the calls made none; a function or cache that no longer
        exists in the package is simply absent.
        """
        metrics: dict[str, float] = {}
        for name in sorted(self.span_names):
            calls, self_s = self._totals.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self_s
        for metric, (hits, misses) in self._cache_totals.items():
            metrics[f"{metric}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["gw.lookup.zero_fills"] = self.counters["gw.lookup.zero_fills"]
        if "gw.build_potential.gerbe" in self.span_names:
            kept = self.counters["gw.gerbe_keys_kept"]
            evaluated = metrics.get("gw.gerbe_invariant_rho.calls", 0)
            metrics["gw.gerbe_keys_kept"] = kept
            metrics["gw.gerbe_keys_kept_ratio"] = kept / evaluated if evaluated else 0.0
        for counter in self._yield_counters:
            metrics[counter] = self.counters[counter]
        self._totals = {}
        self._cache_totals = {metric: [0, 0] for metric in self._reported_caches}
        self.counters.clear()
        return metrics


def _union_within(pieces: list, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    covered, reach = 0.0, lo
    for start, end in sorted(pieces):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered
