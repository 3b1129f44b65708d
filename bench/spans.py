"""In-memory spans around the public functions of psiverify's modules.

``Tracer.install`` replaces every public function of the traced modules, in
every psiverify module namespace that holds it, with a wrapper that records
one span per call: name, start, end, duration and parent.  A generator
function gets one span per generator whose duration is the time spent
inside it (its busy time), so the consumer's own work between items stays
with the consumer.  ``numerics`` is not wrapped: it is called about 44
times per streamed point, so its cost is counted separately (cProfile) and
its time stays in the caller's self time.

Nothing here touches psiverify's source; spans are written as JSONL only
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = ("primes", "series", "bounds", "claims", "arith", "cli")

# The bounds' 113-bit escalation path is private and absent from their
# reports; it gets a call counter, not spans.  (The lower scan's report
# lists its escalations itself.)
ESCALATION_FUNCS = (("bounds", "_interval_sides"),)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._next_id = 0
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to whatever the main thread waits in
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        sid = self._next_id
        self._next_id += 1
        parent = self._parent(stack)
        stack.append(sid)
        return sid, parent, stack

    def _record(self, sid, parent, name, start, end, dur) -> None:
        self.spans.append(
            {
                "id": sid,
                "name": name,
                "parent": parent,
                "thread": threading.current_thread().name,
                "start": start,
                "end": end,
                "dur": dur,
            }
        )

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured elsewhere."""
        sid = self._next_id
        self._next_id += 1
        self._record(sid, None, name, start, end, end - start)

    @contextmanager
    def span(self, name: str):
        sid, parent, stack = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self._record(sid, parent, name, start, end, end - start)

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, stack = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._record(sid, parent, name, start, end, end - start)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            sid = parent = None
            first = last = None
            busy = 0.0
            try:
                while True:
                    if sid is None:
                        sid, parent, stack = tracer._open()
                    else:
                        stack = tracer._stack()
                        stack.append(sid)
                    t = perf_counter()
                    if first is None:
                        first = t
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        busy += last - t
                        stack.pop()
                    yield item
            finally:
                it.close()
                if sid is not None:
                    tracer._record(sid, parent, name, first, last, busy)

        return wrapper

    def _wrap_counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of TRACED_MODULES wherever they are bound."""
        modules = {m: importlib.import_module(f"psiverify.{m}") for m in TRACED_MODULES}
        replace: dict[int, object] = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    replace[id(fn)] = (fn, self._wrap_generator(name, fn))
                else:
                    replace[id(fn)] = (fn, self._wrap_function(name, fn))
        for short, attr in ESCALATION_FUNCS:
            fn = getattr(modules[short], attr)
            self.counts[f"{short}.{attr}"] = 0
            replace[id(fn)] = (fn, self._wrap_counter(f"{short}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "psiverify" or modname.startswith("psiverify.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    # -- analysis -----------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def write_jsonl(self, path) -> None:
        """Write every span, then a ``trace.write`` span for the writing itself."""
        start = perf_counter()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            self.add("trace.write", start, perf_counter())
            fh.write(json.dumps(self.spans[-1]) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the durations of its direct children, per span id."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["dur"]
    return {s["id"]: s["dur"] - child.get(s["id"], 0.0) for s in spans}


def layer_self(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer (the module part of the span name)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s["id"]]
    return out


def total(spans: list[dict], name: str) -> float:
    return sum(s["dur"] for s in spans if s["name"] == name)


def self_total(spans: list[dict], name: str) -> float:
    own = self_times(spans)
    return sum(own[s["id"]] for s in spans if s["name"] == name)


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
