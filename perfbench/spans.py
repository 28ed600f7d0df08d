"""In-memory span recorder used by the benchmark's traced runs.

The recorder measures the analyzer's layers from outside: it replaces a
public function, looked up by name in the module that calls it, with a
wrapper that records one span per call.  Spans stay in memory while the
run is measured and are written as JSONL once it ends, so the only cost
inside the measured region is two clock reads and a list append per call.

A span is ``(name, start, end, parent, run, op, ok)``: ``parent`` is the
index of the span that was open when this one started (the calls nest on
one thread, so children always lie inside their parent), ``run`` names
the benchmark run and ``op`` the closed-loop operation (batch pass, edit
or fuzz seed) the span belongs to.  ``ok`` is false when the call raised.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    op: int
    ok: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrapped functions; restores them on :meth:`restore`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op = 0
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recording one span per call; ``on_return(result)``, if
        given, sees every value the call returns (for counting work)."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(recorder.spans)
            parent = recorder._open[-1] if recorder._open else None
            span = Span(name, time.perf_counter(), 0.0, parent, recorder.run_id, recorder.op)
            recorder.spans.append(span)
            recorder._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                recorder._open.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, on_return=None) -> None:
        """Replace ``owner.attribute`` (a module global or a class member)
        with a recording wrapper named ``name``."""
        self.replace(
            owner, attribute, self.wrap(name, owner.__dict__[attribute], on_return)
        )

    def replace(self, owner, attribute: str, value) -> None:
        """Set ``owner.attribute`` to ``value`` until :meth:`restore`."""
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- analysis ---------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [span.duration - child_time[i] for i, span in enumerate(self.spans)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``failed``, ``busy_s`` and ``self_s``.

        ``busy_s`` is inclusive wall time; a span nested (at any depth)
        inside another span of the same name is not counted again, so a
        recursive layer is never busier than the wall clock.
        """
        own = self.self_times()
        totals: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            entry = totals.setdefault(
                span.name, {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["failed"] += not span.ok
            entry["self_s"] += own[i]
            if not self._inside_same_name(i):
                entry["busy_s"] += span.duration
        return totals

    def _inside_same_name(self, index: int) -> bool:
        name = self.spans[index].name
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with path.open("w") as out:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "run": span.run,
                    "op": span.op,
                    "ok": span.ok,
                    "self_s": own[i],
                }
                out.write(json.dumps(record) + "\n")
