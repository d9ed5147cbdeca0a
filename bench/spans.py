"""In-memory span and count recorder for the traced run.

A span is (name, op, parent, start_ns, end_ns); its layer is the part of
its name before the first dot. Wrappers are installed on the names the
package looks up at call time and removed again, so the untraced passes
run the package's own functions. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_ns = time.perf_counter_ns


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(lambda: [0, 0])  # name -> [calls, total ns]
        self.op = -1
        self._stack: list[int] = []
        self._installed: list = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name, child of the open span."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = _ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _ns()
            self._stack.pop()
            self.spans[index] = (name, self.op, parent, start, end)

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def counted(self, name: str, fn):
        """Count calls and their time without a span per call.

        For per-point kernels, where a span per call would cost more than
        the call: their time stays in the calling span's self time.
        """
        total = self.counts[name]

        def wrapper(*args, **kwargs):
            start = _ns()
            try:
                return fn(*args, **kwargs)
            finally:
                total[0] += 1
                total[1] += _ns() - start
        return wrapper

    def install(self, owner, attr: str, name: str, counted: bool = False):
        original = getattr(owner, attr)
        wrap = self.counted if counted else self.spanned
        setattr(owner, attr, wrap(name, original))
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover.

        Children run one after another inside their parent on one thread,
        so the part they cover is the sum of their durations.
        """
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        with open(path, "w") as handle:
            for name, op, parent, start, end in self.spans:
                handle.write(json.dumps({"name": name, "op": op, "parent": parent,
                                         "start_ns": start, "end_ns": end}) + "\n")
