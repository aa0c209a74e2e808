"""Spans and counters recorded around the benchmark's calls into the library.

With tracing off, call() only forwards and count() does nothing, so the
end-to-end figures are measured on the bare calls. With tracing on, every
call leaves one span (name, start, end, enclosing analysis id) in memory;
the runner writes the spans out when the run ends.
"""

import time


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []          # [id, name, start, end, parent id]
        self.counts = {}
        self._analysis = None

    def begin_analysis(self, label):
        if self.enabled:
            self._analysis = len(self.spans)
            self.spans.append([self._analysis, "analysis." + label, time.perf_counter(), None, None])

    def end_analysis(self):
        if self.enabled:
            self.spans[self._analysis][3] = time.perf_counter()
            self._analysis = None

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([len(self.spans), name, start, time.perf_counter(), self._analysis])

    def count(self, name, k):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + k

    def busy(self):
        """Summed span time per call name, analysis spans left out."""
        out = {}
        for _, name, start, end, parent in self.spans:
            if parent is not None:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def to_json(self):
        keys = ("id", "name", "start", "end", "parent")
        return {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": self.counts}
