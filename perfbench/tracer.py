"""In-memory span recorder for the traced benchmark run.

Spans are recorded by rebinding the public names each caller looks up
(module globals, class attributes, entries of a dict) with a timing
wrapper, so nothing under src/mfbo changes. Each thread keeps its own
parent stack, span list and counters, so spans from the harness's worker
threads nest under the run that caused them. Self time is a span's
duration minus the durations of its direct children, which run on the
same thread one after another. Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class _ThreadState:
    __slots__ = ("stack", "spans", "counters")

    def __init__(self):
        self.stack = []       # open frames: [child_seconds, root_label]
        self.spans = []       # (name, start, end, self_s, depth, root_label)
        self.counters = defaultdict(float)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[tuple[int, _ThreadState]] = []
        self._undo: list = []
        self.missing: list[str] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append((threading.get_ident(), st))
        return st

    def count(self, key: str, value: float = 1.0) -> None:
        self._state().counters[key] += value

    def wrap(self, name, fn, label=None, on_result=None):
        """fn wrapped in a span called name.

        label tags every span opened below this one on the same thread
        (the policy name for a run); on_result(tracer, args, result) adds
        counters after a successful call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            root = stack[0][1] if stack else (label or name)
            frame = [0.0, root]
            depth = len(stack)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                st.spans.append((name, t0, t1, dur - frame[0], depth, root))
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Rebind owner.attr (a module or class) to a traced wrapper."""
        where = vars(owner)
        if attr not in where:
            self.missing.append("%s.%s" % (owner.__name__, attr))
            return
        orig = where[attr]
        setattr(owner, attr, self.wrap(name, orig, on_result=on_result))
        self._undo.append(lambda: setattr(owner, attr, orig))

    def patch_item(self, mapping: dict, key: str, name: str, label=None, on_result=None) -> None:
        """Rebind mapping[key] to a traced wrapper."""
        orig = mapping[key]
        mapping[key] = self.wrap(name, orig, label=label, on_result=on_result)
        self._undo.append(lambda: mapping.__setitem__(key, orig))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def spans(self):
        """All spans as (thread, name, start, end, self_s, depth, root)."""
        out = []
        for tid, st in self._states:
            out.extend((tid,) + s for s in st.spans)
        return out

    def counters(self) -> dict:
        total = defaultdict(float)
        for _, st in self._states:
            for k, v in st.counters.items():
                total[k] += v
        return dict(total)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("thread,name,start,end,self_s,depth,root\n")
            for tid, name, t0, t1, self_s, depth, root in self.spans():
                fh.write("%d,%s,%.9f,%.9f,%.9f,%d,%s\n" % (tid, name, t0, t1, self_s, depth, root))


def summarize_spans(spans) -> dict:
    """name -> {"calls", "self_s", "total_s", "durations"}."""
    agg = {}
    for _tid, name, t0, t1, self_s, _depth, _root in spans:
        a = agg.get(name)
        if a is None:
            a = agg[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []}
        a["calls"] += 1
        a["self_s"] += self_s
        a["total_s"] += t1 - t0
        a["durations"].append(t1 - t0)
    return agg
