"""In-memory span tracer installed by the benchmark around public calls.

The tracer never edits the program: :meth:`Tracer.patch` swaps a module
or class attribute for a wrapper that records one span per call and
:meth:`Tracer.restore` puts the originals back.  Every span has a name,
start, end, parent and the run id.  The first ``keep`` calls of each
name are kept as individual spans; every call, kept or not, is folded
into that name's aggregate (calls, total seconds, self seconds, units of
work), so a call site with hundreds of thousands of calls per run costs
memory only for its first ``keep``.

A span's self time is its duration minus the durations of its direct
children.  Summed over every span of one root, self times telescope to
the root's duration exactly, so "layer self times plus the root's own
self time equal the root wall time" holds by construction; the root's
self time is what the benchmark reports as unattributed.

This module imports only the standard library so the benchmark's worker
processes can load it next to the program under test.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

__all__ = ["Tracer"]

#: individual spans kept per name; later calls are only aggregated.
KEEP_PER_NAME = 10_000


class Tracer:
    """Span recorder with a call stack, one instance per traced run."""

    def __init__(self, run_id: str, keep: int = KEEP_PER_NAME) -> None:
        self.run_id = run_id
        self.keep = keep
        #: kept spans as ``(id, name, start, end, parent_id)``.
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        #: name -> [calls, total_s, self_s, units]
        self.stats: dict[str, list[float]] = {}
        # Open frames: [id, name, start, children_s, kept]
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _enter(self, name: str) -> list:
        stat = self.stats.get(name)
        kept = stat is None or stat[0] < self.keep
        frame = [self._next_id, name, time.perf_counter(), 0.0, kept]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, units: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, children, kept = frame
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - children
        stat[3] += units
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            # The nearest kept ancestor, so every listed parent id is in
            # the file.
            for anc in reversed(self._stack):
                if anc[4]:
                    parent = anc[0]
                    break
        if kept:
            self.spans.append((span_id, name, start, end, parent))

    def wrap(self, name: str, fn, units=None):
        """``fn`` wrapped in a span; ``units(args)`` counts work done."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, units(args) if units is not None else 0.0)

        return traced

    def patch(self, owner, attr: str, name: str, units=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper until restore()."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, units))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name aggregates: calls, total and self seconds, units."""
        return {
            name: {"calls": int(calls), "s": total, "self_s": self_s, "units": units}
            for name, (calls, total, self_s, units) in sorted(self.stats.items())
        }

    def write(self, path: str | Path, workload: str) -> None:
        """Dump kept spans and aggregates as one JSON document."""
        doc = {
            "workload": workload,
            "run": self.run_id,
            "keep_per_name": self.keep,
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                for i, n, s, e, p in self.spans
            ],
            "aggregates": self.summary(),
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
