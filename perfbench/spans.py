"""Span recording around gdiff's public functions, done from outside the
package.

``Tracer.install`` replaces each listed function at every ``gdiff`` module
that binds it (and each listed method on its class) with a wrapper.  A
span wrapper records (name, start, end, parent) in memory, adds the call's
duration minus its wrapped children's to the span's self time, and counts
the call.  A count wrapper only counts.  Either may add problem sizes to
named counters.  ``Tracer.remove`` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

SizeFn = Callable[[Dict[str, float], tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(int)
        self._stack: List[list] = []   # [span index, wrapped children's time]
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, sizes: Optional[SizeFn]):
        spans, stack = self.spans, self._stack
        self_time, calls, counters = self.self_time, self.calls, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent)
                self_time[name] += (end - start) - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += end - start
            if sizes is not None:
                sizes(counters, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn, sizes: Optional[SizeFn]):
        calls, counters = self.calls, self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if sizes is not None:
                sizes(counters, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """``targets``: (dotted path, span name, kind, sizes) rows, where the
        path is ``module.function`` or ``module.Class.method`` under gdiff
        and kind is "span" or "count"."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "gdiff" or n.startswith("gdiff.")]
        for path, name, kind, sizes in targets:
            modname, _, attr = path.rpartition(".")
            make = self._span if kind == "span" else self._count
            if modname.count(".") == 2:       # gdiff.module.Class
                modname, _, clsname = modname.rpartition(".")
                owner = getattr(importlib.import_module(modname), clsname)
                self._patch(owner, attr, make(name, vars(owner)[attr], sizes))
                continue
            original = getattr(importlib.import_module(modname), attr)
            wrapper = make(name, original, sizes)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def exclude(self, seconds: float) -> None:
        """Count ``seconds`` spent inside the innermost open span, on work
        that is not gdiff's, as a child of that span: it leaves the span's
        self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def reset(self) -> None:
        """Start a new pass: keep the spans, zero the per-pass totals."""
        self.self_time.clear()
        self.calls.clear()
        self.counters.clear()

    def write_spans(self, path: str) -> None:
        """One JSON object per line: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
