"""In-memory span recorder that wraps dlczsim's public functions.

Every wrapped call records one span ``[name, start, end, parent]``: ``parent``
is the index of the span that was open when the call began, or -1. Spans stay
in memory and are written out once, when the run ends. A span's self time is
its duration minus the durations of its direct children; calls run on one
thread, so children never overlap and their sum is the part of the interval
they cover.

Wrappers are installed on the module attribute the caller looks up: the
modules import names directly (``from .streams import substream``), so
``dlczsim.chain_sim.substream`` and ``dlczsim.experiments.substream`` are two
separate lookups to wrap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


class Patches:
    """Attribute replacements that are undone in reverse order on close."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Tracer:
    """Spans plus counters recorded at the same call boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, patches: Patches, owner, attr: str, name: str, observe=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``observe(counts, args, kwargs, result)`` runs after the span closes,
        so its own cost is not charged to the layer.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                index = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(index)
                if observe is not None:
                    observe(self.counts, args, kwargs, result)
                return result
            return wrapper
        patches.replace(owner, attr, make)

    def count(self, patches: Patches, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without a span."""
        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return original(*args, **kwargs)
            return wrapper
        patches.replace(owner, attr, make)

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def write(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent]``, one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"],
                                    "spans": self.spans}, separators=(",", ":")))
